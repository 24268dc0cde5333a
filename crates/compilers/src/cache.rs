//! Content-addressed memoization of compilation results.
//!
//! The experiment matrix in `paccport-core` compiles the same
//! (program, compiler, options) triple many times — e.g. the LUD
//! ThreadDist variant is compiled for fig. 3, again for the fig. 4
//! sweeps, and again for the fig. 6 PTX histograms. [`ArtifactCache`]
//! collapses those into a single compile per unique key, which is what
//! makes the parallel engine cheap enough to fan the whole paper out.
//!
//! Keys are content hashes, not identities: two structurally identical
//! programs built by different call sites share an entry, and mutating
//! a single clause (say `independent` on one loop) changes the key.
//! The fingerprint is computed from the program's `Debug` rendering,
//! which in this IR is a complete structural dump.
//!
//! Concurrency: each key maps to a [`OnceLock`] slot, so when several
//! workers race on the same key, exactly one runs the compiler and the
//! rest block until the result is published (singleflight). Hits and
//! misses are counted and mirrored to `paccport-trace` counters
//! (`cache.hit` / `cache.miss`) when tracing is on.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use paccport_ir::Program;
use paccport_trace::hash::{fnv1a64, Fnv1a128, FNV_BASIS};

use crate::artifact::{CompileError, CompiledProgram, CostNode, CostTree};
use crate::options::{CompileOptions, CompilerId};

/// Cache key: compiler personality + full option set + program content.
///
/// Options are keyed by their `Debug` form — `CompileOptions` derives
/// `Debug` over every field (backend, target, host compiler, flags,
/// quirks), so any option change is a different key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    compiler: CompilerId,
    options: String,
    program: u128,
}

impl CacheKey {
    pub fn new(compiler: CompilerId, program: &Program, options: &CompileOptions) -> Self {
        Self::with_fingerprint(compiler, fingerprint(program), options)
    }

    /// The key of a program whose [`fingerprint`] is `program`.
    pub fn with_fingerprint(compiler: CompilerId, program: u128, options: &CompileOptions) -> Self {
        CacheKey {
            compiler,
            options: format!("{options:?}"),
            program,
        }
    }

    /// Filesystem-safe entry name for a backing [`ArtifactStore`]:
    /// compiler tag + option hash + program fingerprint, all content-
    /// derived, so the same key names the same file across processes.
    pub fn storage_name(&self) -> String {
        format!(
            "{}-{:016x}-{:032x}",
            crate::diskfmt::compiler_tag(self.compiler),
            fnv1a64(self.options.as_bytes(), FNV_BASIS),
            self.program
        )
    }
}

/// A durable backing tier for [`ArtifactCache`]: entries are the
/// [`crate::diskfmt`] records of compiled artifacts, keyed by
/// [`CacheKey::storage_name`]. Implementations live outside this
/// crate (the persist layer's checksummed file store); the trait
/// keeps this crate ignorant of filesystems.
///
/// Contract: `load` returns whatever bytes were last stored (or
/// `None`), with any transport-level integrity checking already done;
/// the cache still decodes defensively and treats undecodable
/// payloads as absent, evicting them.
pub trait ArtifactStore: Send + Sync {
    fn load(&self, name: &str) -> Option<String>;
    fn store(&self, name: &str, payload: &str);
    fn evict(&self, name: &str);
}

/// 128-bit content fingerprint of a program: two independent FNV-1a-64
/// passes over the structural `Debug` dump. FNV is not cryptographic,
/// but 128 bits over a few-KB input makes accidental collisions across
/// an experiment matrix of dozens of programs a non-concern. The dump
/// streams into the hash; it is never built as one string.
pub fn fingerprint(program: &Program) -> u128 {
    let mut h = Fnv1a128::new();
    write!(h, "{program:?}").expect("hashing a Debug dump cannot fail");
    h.finish()
}

/// Content checksum of an artifact — same FNV construction as the key
/// fingerprint, over the artifact's structural dump. The
/// [`crate::diskfmt`] record embeds it and re-derives it on decode.
pub fn artifact_checksum(c: &CompiledProgram) -> u64 {
    fnv1a64(format!("{c:?}").as_bytes(), FNV_BASIS)
}

/// The decoded store entry `name`, if the store holds one. A record the
/// transport returned intact but that does not decode (version skew,
/// codec drift) is evicted and treated as absent.
fn load_from(store: &dyn ArtifactStore, name: &str) -> Option<CompiledProgram> {
    if let Some(payload) = store.load(name) {
        match crate::diskfmt::decode_artifact(&payload) {
            Ok(c) => {
                paccport_trace::metrics::counter_add("disk_cache_hit_total", &[], 1);
                return Some(c);
            }
            Err(_) => {
                store.evict(name);
                paccport_trace::metrics::counter_add("disk_cache_evict_total", &[], 1);
            }
        }
    }
    paccport_trace::metrics::counter_add("disk_cache_miss_total", &[], 1);
    None
}

/// An artifact's size in cache units, the unit of the byte cap and the
/// tenant quotas: a fixed header plus weighted counts of its PTX
/// instructions, IR statements and plan nodes (each plan and each node
/// of its cost tree). The weights keep an artifact near its encoded
/// length in bytes; counting needs no encoding or allocation, and the
/// size is never 0.
fn entry_size(c: &CompiledProgram) -> u64 {
    fn cost_nodes(t: &CostTree) -> usize {
        t.kids
            .iter()
            .map(|k| match k {
                CostNode::Loop { body, .. } => 1 + cost_nodes(body),
                CostNode::Branch { then, els } => 1 + cost_nodes(then) + cost_nodes(els),
            })
            .sum()
    }
    let instrs: usize = c.module.kernels.iter().map(|k| k.len()).sum();
    let plan_nodes: usize = c.plans.iter().map(|p| 1 + cost_nodes(&p.cost)).sum();
    (256 + 32 * instrs + 64 * c.program.stmt_count() + 128 * plan_nodes) as u64
}

/// One cache entry: a singleflight slot holding the artifact, plus the
/// mark of a corrupt copy. The `corrupt-cache` fault sets `corrupt`
/// *at write time* (inside the slot's initializer, so the `OnceLock`'s
/// release/acquire ordering publishes it) to simulate an artifact
/// going stale on disk, and a read that finds it set evicts the entry.
struct Entry {
    slot: OnceLock<Result<Arc<CompiledProgram>, CompileError>>,
    corrupt: AtomicBool,
    /// Bumped per *key* on every (re)insertion, so fault decisions
    /// about "this physical copy" are keyed per generation — and,
    /// because the counter is per key rather than global, the decision
    /// sequence is identical no matter how worker threads interleave.
    generation: u64,
    /// Resident size in cache units ([`entry_size`]); written inside
    /// the slot initializer, `0` for error entries.
    bytes: AtomicU64,
    /// LRU stamp from the cache's use-clock, refreshed on every lookup.
    last_use: AtomicU64,
    /// Whether this entry's bytes are currently counted against the
    /// cache totals (set once on insert, cleared once on eviction —
    /// guards against double accounting under racing evictors).
    accounted: AtomicBool,
    /// The tenant whose compile inserted the entry (see
    /// [`tenant_scope`]); its bytes count against that tenant's quota.
    tenant: Mutex<Option<String>>,
    /// Trace attribution of the build: whichever job wins the
    /// singleflight, its `compilers.compile` span is exported under
    /// the earliest-submitted job that looked the entry up.
    work: Arc<paccport_trace::SharedWork>,
}

impl Entry {
    fn new(generation: u64) -> Self {
        Entry {
            slot: OnceLock::new(),
            corrupt: AtomicBool::new(false),
            generation,
            bytes: AtomicU64::new(0),
            last_use: AtomicU64::new(0),
            accounted: AtomicBool::new(false),
            tenant: Mutex::new(None),
            work: paccport_trace::SharedWork::new(),
        }
    }
}

thread_local! {
    static CURRENT_TENANT: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// The tenant new cache entries are attributed to on this thread
/// (`None` — the default — is the anonymous tenant, exempt from
/// quotas). The serving layer sets it per request from the `X-Tenant`
/// header via [`tenant_scope`].
pub fn current_tenant() -> Option<String> {
    CURRENT_TENANT.with(|c| c.borrow().clone())
}

/// Attribute cache inserts on this thread to `tenant` until the
/// returned guard drops (which restores the previous attribution).
pub fn tenant_scope(tenant: Option<String>) -> TenantScope {
    let prev = CURRENT_TENANT.with(|c| c.replace(tenant));
    TenantScope { prev }
}

/// Guard from [`tenant_scope`]; restores the prior tenant on drop.
pub struct TenantScope {
    prev: Option<String>,
}

impl Drop for TenantScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT_TENANT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Capacity limits, both off by default. `byte_cap` bounds the whole
/// cache; `tenant_quota` bounds each named tenant's share.
#[derive(Default, Clone, Copy)]
struct Limits {
    byte_cap: Option<u64>,
    tenant_quota: Option<u64>,
}

/// Byte accounting: resident total plus each named tenant's share.
#[derive(Default)]
struct Acct {
    total: u64,
    tenants: HashMap<String, u64>,
}

/// Bounded evict-and-recompile rounds before a persistently faulty
/// key is given up on. Each round rolls fresh fault decisions (the
/// generation advances), so with realistic injection rates a key
/// recovers in one or two rounds; exhausting all of them needs rates
/// near 1.
const MAX_CORRUPT_ROUNDS: usize = 4;

/// Thread-safe, singleflight compile cache. A read that finds its entry
/// marked corrupt (by the `corrupt-cache` fault or [`Self::poison`])
/// evicts and recompiles instead of serving the poisoned copy; records
/// from the durable tier verify their own checksum as they decode.
#[derive(Default)]
pub struct ArtifactCache {
    entries: Mutex<HashMap<CacheKey, Arc<Entry>>>,
    /// Next generation number per key (kept across evictions).
    generations: Mutex<HashMap<CacheKey, u64>>,
    /// Optional durable backing tier (see [`ArtifactStore`]).
    disk: Mutex<Option<Arc<dyn ArtifactStore>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Monotone use-clock behind the entries' LRU stamps.
    clock: AtomicU64,
    limits: Mutex<Limits>,
    acct: Mutex<Acct>,
    lru_evictions: AtomicU64,
}

impl ArtifactCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a durable backing store. Compiles first consult it
    /// (decoded entries skip the compiler entirely) and publish fresh
    /// artifacts back to it.
    pub fn set_store(&self, store: Arc<dyn ArtifactStore>) {
        *self.disk.lock().unwrap() = Some(store);
    }

    fn disk(&self) -> Option<Arc<dyn ArtifactStore>> {
        self.disk.lock().unwrap().clone()
    }

    /// Compile through the cache. The first caller for a key runs
    /// [`crate::compile`] and every later (or concurrent) caller gets
    /// the shared artifact. Genuine errors are cached the same way,
    /// since a deterministic compiler fails identically on retry.
    ///
    /// Injected faults are recovered *inside* the cache: a transient
    /// compile failure or a corrupted artifact evicts the entry and
    /// rolls a fresh round, with the fault-decision attempt pinned to
    /// the entry's per-key generation. That makes the cache's outcome
    /// for a key a pure function of (key, fault seed) — which thread
    /// warms the cache, or how many jobs race on it, cannot change
    /// what anyone is served. Every read checks the entry's corruption
    /// mark; a disk record is verified once, as it decodes.
    pub fn compile(
        &self,
        id: CompilerId,
        program: &Program,
        options: &CompileOptions,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        self.compile_fingerprinted(id, program, fingerprint(program), options)
    }

    /// [`ArtifactCache::compile`] for a caller that already holds the
    /// program's [`fingerprint`], `program_fp`.
    pub fn compile_fingerprinted(
        &self,
        id: CompilerId,
        program: &Program,
        program_fp: u128,
        options: &CompileOptions,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        let saved = paccport_faults::current_attempt();
        let key = CacheKey::with_fingerprint(id, program_fp, options);
        let r = self.compile_rounds(&key, id, program, options);
        paccport_faults::set_attempt(saved);
        r
    }

    fn compile_rounds(
        &self,
        key: &CacheKey,
        id: CompilerId,
        program: &Program,
        options: &CompileOptions,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        let mut last_injected: Option<CompileError> = None;
        for _ in 0..MAX_CORRUPT_ROUNDS {
            let entry = self.entry(key);
            entry.work.claim();
            let mut fresh = false;
            let result = entry.slot.get_or_init(|| {
                fresh = true;
                let _owner_attributed = entry.work.perform();
                // Fault decisions made while compiling (compile-fail,
                // slow-compile, write-time corruption) are keyed by
                // the entry's generation, not the calling job's retry
                // attempt: the compiler runs once per generation no
                // matter who triggers it.
                paccport_faults::set_attempt(entry.generation as u32);
                // Durable tier first: a decoded disk entry skips the
                // compiler (and with it the compile-time fault sites —
                // the entry was verified when first built; its
                // integrity is the disk format's own checksums).
                let disk = self.disk();
                let name = key.storage_name();
                let r = match disk.as_ref().and_then(|store| load_from(&**store, &name)) {
                    Some(c) => Ok(Arc::new(c)),
                    None => {
                        let r = crate::compile(id, program, options).map(Arc::new);
                        if let Ok(c) = &r {
                            // The corrupt-cache fault strikes the
                            // physical copy as it is written; readers
                            // see the mark below and evict.
                            let fault_key = format!("cache:{name}:gen{}", entry.generation);
                            let corrupted = paccport_faults::inject(
                                paccport_faults::FaultKind::CorruptCache,
                                &fault_key,
                            );
                            entry.corrupt.store(corrupted, Ordering::Relaxed);
                            // Publish clean builds to the durable tier.
                            // A corrupt-cache generation is not
                            // published: the in-memory
                            // evict-and-recompile round must play out
                            // exactly as without a store.
                            if let Some(store) = disk.filter(|_| !corrupted) {
                                store.store(&name, &crate::diskfmt::encode_artifact(c));
                            }
                        }
                        r
                    }
                };
                if let Ok(c) = &r {
                    entry.bytes.store(entry_size(c), Ordering::Relaxed);
                    *entry.tenant.lock().unwrap() = current_tenant();
                }
                r
            });
            entry.last_use.store(
                self.clock.fetch_add(1, Ordering::Relaxed) + 1,
                Ordering::Relaxed,
            );
            if fresh {
                self.misses.fetch_add(1, Ordering::Relaxed);
                paccport_trace::add("cache.miss", 1);
                if result.is_ok() {
                    self.account_insert(&entry);
                    self.enforce_caps();
                }
            } else {
                self.hits.fetch_add(1, Ordering::Relaxed);
                paccport_trace::add("cache.hit", 1);
            }
            match result {
                Ok(c) => {
                    if !entry.corrupt.load(Ordering::Relaxed) {
                        return Ok(Arc::clone(c));
                    }
                    // Integrity failure: never serve the entry — evict
                    // and recompile under the next generation.
                    paccport_trace::add("cache.corrupt_evicted", 1);
                    self.evict(key, &entry);
                }
                Err(e) if paccport_faults::is_injected(&e.message) => {
                    // Transient by construction: evict so the next
                    // round recompiles under a fresh generation.
                    self.evict(key, &entry);
                    last_injected = Some(e.clone());
                }
                Err(e) => return Err(e.clone()),
            }
        }
        Err(last_injected.unwrap_or_else(|| CompileError {
            compiler: id,
            message: format!(
                "{} persistent artifact corruption for `{}` ({MAX_CORRUPT_ROUNDS} rebuilds discarded)",
                paccport_faults::INJECTED,
                program.name
            ),
        }))
    }

    /// The live entry for `key`, inserted fresh (with the key's next
    /// generation) if absent.
    fn entry(&self, key: &CacheKey) -> Arc<Entry> {
        let mut entries = self.entries.lock().unwrap();
        Arc::clone(entries.entry(key.clone()).or_insert_with(|| {
            let mut gens = self.generations.lock().unwrap();
            let g = gens.entry(key.clone()).or_insert(0);
            let this = *g;
            *g += 1;
            Arc::new(Entry::new(this))
        }))
    }

    /// Remove `key` iff it still maps to this exact entry (a racing
    /// evictor may already have replaced it).
    fn evict(&self, key: &CacheKey, entry: &Arc<Entry>) {
        {
            let mut entries = self.entries.lock().unwrap();
            if entries.get(key).is_some_and(|cur| Arc::ptr_eq(cur, entry)) {
                entries.remove(key);
            }
        }
        self.deduct(entry);
    }

    /// Count a freshly built entry's bytes against the cache totals
    /// (once — the `accounted` flag makes this idempotent).
    fn account_insert(&self, entry: &Arc<Entry>) {
        let bytes = entry.bytes.load(Ordering::Relaxed);
        if bytes == 0 || entry.accounted.swap(true, Ordering::Relaxed) {
            return;
        }
        let tenant = entry.tenant.lock().unwrap().clone();
        let mut acct = self.acct.lock().unwrap();
        acct.total += bytes;
        if let Some(t) = tenant {
            *acct.tenants.entry(t).or_insert(0) += bytes;
        }
    }

    /// Undo [`Self::account_insert`] for an entry leaving the map.
    fn deduct(&self, entry: &Entry) {
        if !entry.accounted.swap(false, Ordering::Relaxed) {
            return;
        }
        let bytes = entry.bytes.load(Ordering::Relaxed);
        let tenant = entry.tenant.lock().unwrap().clone();
        let mut acct = self.acct.lock().unwrap();
        acct.total = acct.total.saturating_sub(bytes);
        if let Some(t) = tenant {
            if let Some(b) = acct.tenants.get_mut(&t) {
                *b = b.saturating_sub(bytes);
                if *b == 0 {
                    acct.tenants.remove(&t);
                }
            }
        }
    }

    /// Evict least-recently-used entries until the resident total is
    /// within the byte cap and every tenant within its quota. The
    /// just-inserted entry is eligible too (it carries the newest LRU
    /// stamp, so it only goes when it is the last one standing — i.e.
    /// when it alone exceeds the cap): `total_bytes() <= cap` holds
    /// unconditionally after every insert.
    fn enforce_caps(&self) {
        let limits = *self.limits.lock().unwrap();
        if limits.byte_cap.is_none() && limits.tenant_quota.is_none() {
            return;
        }
        loop {
            let (reason, tenant_filter): (&'static str, Option<String>) = {
                let acct = self.acct.lock().unwrap();
                let over_cap = limits.byte_cap.is_some_and(|cap| acct.total > cap);
                // Deterministic tenant pick: the lexicographically
                // first tenant over quota.
                let over_tenant: Option<String> = limits.tenant_quota.and_then(|q| {
                    acct.tenants
                        .iter()
                        .filter(|(_, b)| **b > q)
                        .map(|(t, _)| t.clone())
                        .min()
                });
                if over_cap {
                    ("byte-cap", None)
                } else if let Some(t) = over_tenant {
                    ("tenant-quota", Some(t))
                } else {
                    break;
                }
            };
            let victim: Option<(CacheKey, Arc<Entry>, &'static str)> = {
                let entries = self.entries.lock().unwrap();
                entries
                    .iter()
                    .filter(|(_, e)| e.accounted.load(Ordering::Relaxed))
                    .filter(|(_, e)| match &tenant_filter {
                        Some(t) => e.tenant.lock().unwrap().as_deref() == Some(t.as_str()),
                        None => true,
                    })
                    .min_by_key(|(_, e)| e.last_use.load(Ordering::Relaxed))
                    .map(|(k, e)| (k.clone(), Arc::clone(e), reason))
            };
            match victim {
                Some((key, entry, reason)) => {
                    self.lru_evictions.fetch_add(1, Ordering::Relaxed);
                    paccport_trace::metrics::counter_add(
                        "cache_evict_total",
                        &[("reason", reason)],
                        1,
                    );
                    paccport_trace::add("cache.lru_evicted", 1);
                    self.evict(&key, &entry);
                }
                // Over budget but nothing accounted is left to shed —
                // cannot happen while the invariants hold, but never
                // spin on it.
                None => break,
            }
        }
    }

    /// Bound the cache's resident size (`None` lifts the bound). Sizes
    /// are cache units, not encoded bytes: an artifact weighs a 256-unit
    /// header plus 32 per PTX instruction, 64 per IR statement and 128
    /// per plan node, near its encoded length in bytes. Enforced
    /// eagerly: setting a smaller cap evicts immediately.
    pub fn set_byte_cap(&self, cap: Option<u64>) {
        self.limits.lock().unwrap().byte_cap = cap;
        self.enforce_caps();
    }

    /// Bound each named tenant's resident size, in cache units (`None`
    /// lifts it).
    /// Anonymous inserts (no [`tenant_scope`]) are exempt.
    pub fn set_tenant_quota(&self, quota: Option<u64>) {
        self.limits.lock().unwrap().tenant_quota = quota;
        self.enforce_caps();
    }

    /// Resident size across all cached artifacts, in cache units (see
    /// [`Self::set_byte_cap`]).
    pub fn total_bytes(&self) -> u64 {
        self.acct.lock().unwrap().total
    }

    /// Resident size attributed to `tenant`, in cache units.
    pub fn tenant_bytes(&self, tenant: &str) -> u64 {
        self.acct
            .lock()
            .unwrap()
            .tenants
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Entries evicted by the byte cap or a tenant quota (not counting
    /// integrity evictions).
    pub fn lru_evictions(&self) -> u64 {
        self.lru_evictions.load(Ordering::Relaxed)
    }

    /// Mark an existing entry corrupt — the test handle simulating a
    /// truncated/poisoned artifact on disk. Returns whether the entry
    /// existed.
    pub fn poison(&self, id: CompilerId, program: &Program, options: &CompileOptions) -> bool {
        let key = CacheKey::new(id, program, options);
        let entry = {
            let entries = self.entries.lock().unwrap();
            entries.get(&key).cloned()
        };
        if let Some(e) = &entry {
            e.corrupt.store(true, Ordering::Relaxed);
        }
        entry.is_some()
    }

    /// Lookups that found an existing artifact.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the compiler (== number of unique keys seen,
    /// i.e. each unique (program, options, device) compiled exactly once).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct artifacts currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_ir::{
        ld, st, Block, Expr, HostStmt, Intent, Kernel, ParallelLoop, ProgramBuilder, Scalar, E,
    };

    fn saxpy(name: &str) -> Program {
        let mut b = ProgramBuilder::new(name);
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let y = b.array("y", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let k = Kernel::simple(
            "saxpy",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![st(y, i, E::from(2.0) * ld(x, i) + ld(y, i))]),
        );
        b.finish(vec![HostStmt::Launch(k)])
    }

    #[test]
    fn identical_requests_compile_once() {
        let cache = ArtifactCache::new();
        let p = saxpy("saxpy");
        let opts = CompileOptions::gpu();
        let a = cache.compile(CompilerId::Caps, &p, &opts).unwrap();
        let b = cache.compile(CompilerId::Caps, &p, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn structurally_equal_programs_share_an_entry() {
        let cache = ArtifactCache::new();
        let opts = CompileOptions::gpu();
        let a = cache
            .compile(CompilerId::Caps, &saxpy("saxpy"), &opts)
            .unwrap();
        let b = cache
            .compile(CompilerId::Caps, &saxpy("saxpy"), &opts)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn different_compiler_options_or_program_miss() {
        let cache = ArtifactCache::new();
        let p = saxpy("saxpy");
        let opts = CompileOptions::gpu();
        cache.compile(CompilerId::Caps, &p, &opts).unwrap();
        cache.compile(CompilerId::Pgi, &p, &opts).unwrap();
        cache
            .compile(CompilerId::Caps, &p, &CompileOptions::mic())
            .unwrap();
        cache
            .compile(CompilerId::Caps, &saxpy("saxpy2"), &opts)
            .unwrap();
        assert_eq!((cache.misses(), cache.hits()), (4, 0));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn poisoned_entry_is_evicted_and_recompiled() {
        let cache = ArtifactCache::new();
        let p = saxpy("saxpy");
        let opts = CompileOptions::gpu();
        let a = cache.compile(CompilerId::Caps, &p, &opts).unwrap();
        assert!(cache.poison(CompilerId::Caps, &p, &opts));
        let b = cache.compile(CompilerId::Caps, &p, &opts).unwrap();
        assert_eq!(a, b, "recompiled artifact is byte-identical");
        assert!(!Arc::ptr_eq(&a, &b), "the poisoned copy was not served");
        assert_eq!(cache.misses(), 2, "eviction forced a recompile");
        let c = cache.compile(CompilerId::Caps, &p, &opts).unwrap();
        assert!(Arc::ptr_eq(&b, &c), "the fresh copy verifies clean");
    }

    /// In-memory [`ArtifactStore`] with call accounting.
    #[derive(Default)]
    struct MapStore {
        map: Mutex<HashMap<String, String>>,
        loads: AtomicU64,
        stores: AtomicU64,
    }

    impl ArtifactStore for MapStore {
        fn load(&self, name: &str) -> Option<String> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.map.lock().unwrap().get(name).cloned()
        }
        fn store(&self, name: &str, payload: &str) {
            self.stores.fetch_add(1, Ordering::Relaxed);
            self.map
                .lock()
                .unwrap()
                .insert(name.to_string(), payload.to_string());
        }
        fn evict(&self, name: &str) {
            self.map.lock().unwrap().remove(name);
        }
    }

    #[test]
    fn fresh_compiles_publish_to_the_store() {
        let cache = ArtifactCache::new();
        let store = Arc::new(MapStore::default());
        cache.set_store(Arc::clone(&store) as Arc<dyn ArtifactStore>);
        let p = saxpy("saxpy");
        let opts = CompileOptions::gpu();
        let a = cache.compile(CompilerId::Caps, &p, &opts).unwrap();
        assert_eq!(store.stores.load(Ordering::Relaxed), 1);
        let name = CacheKey::new(CompilerId::Caps, &p, &opts).storage_name();
        let payload = store
            .map
            .lock()
            .unwrap()
            .get(&name)
            .cloned()
            .expect("entry stored");
        assert_eq!(&crate::diskfmt::decode_artifact(&payload).unwrap(), &*a);
    }

    #[test]
    fn a_warm_store_skips_the_compiler() {
        let p = saxpy("saxpy");
        let opts = CompileOptions::gpu();
        let store = Arc::new(MapStore::default());
        // First process life: compile and publish.
        let first = ArtifactCache::new();
        first.set_store(Arc::clone(&store) as Arc<dyn ArtifactStore>);
        let a = first.compile(CompilerId::Caps, &p, &opts).unwrap();
        // Second process life: cold memory, warm disk.
        let second = ArtifactCache::new();
        second.set_store(Arc::clone(&store) as Arc<dyn ArtifactStore>);
        let b = second.compile(CompilerId::Caps, &p, &opts).unwrap();
        assert_eq!(a, b, "disk round trip must reproduce the artifact exactly");
        assert_eq!(store.stores.load(Ordering::Relaxed), 1, "no second publish");
    }

    #[test]
    fn an_undecodable_store_entry_is_evicted_and_recompiled() {
        let p = saxpy("saxpy");
        let opts = CompileOptions::gpu();
        let name = CacheKey::new(CompilerId::Caps, &p, &opts).storage_name();
        let store = Arc::new(MapStore::default());
        store
            .map
            .lock()
            .unwrap()
            .insert(name.clone(), "not an artifact record".to_string());
        let cache = ArtifactCache::new();
        cache.set_store(Arc::clone(&store) as Arc<dyn ArtifactStore>);
        let a = cache.compile(CompilerId::Caps, &p, &opts).unwrap();
        // The garbage was replaced by the freshly compiled record.
        let payload = store.map.lock().unwrap().get(&name).cloned().unwrap();
        assert_eq!(&crate::diskfmt::decode_artifact(&payload).unwrap(), &*a);
    }

    #[test]
    fn storage_names_are_filesystem_safe_and_distinct() {
        let p = saxpy("saxpy");
        let gpu = CacheKey::new(CompilerId::Caps, &p, &CompileOptions::gpu());
        let mic = CacheKey::new(CompilerId::Caps, &p, &CompileOptions::mic());
        let pgi = CacheKey::new(CompilerId::Pgi, &p, &CompileOptions::gpu());
        let names = [gpu.storage_name(), mic.storage_name(), pgi.storage_name()];
        for n in &names {
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)),
                "{n}"
            );
        }
        assert_ne!(names[0], names[1]);
        assert_ne!(names[0], names[2]);
        // Stable across processes: derived from content only.
        assert_eq!(
            gpu.storage_name(),
            CacheKey::new(CompilerId::Caps, &p, &CompileOptions::gpu()).storage_name()
        );
    }

    #[test]
    fn poisoning_an_absent_key_reports_false() {
        let cache = ArtifactCache::new();
        assert!(!cache.poison(CompilerId::Caps, &saxpy("saxpy"), &CompileOptions::gpu()));
    }

    #[test]
    fn entry_size_stays_near_the_encoded_length() {
        let p = saxpy("s");
        for id in [CompilerId::Caps, CompilerId::Pgi, CompilerId::OpenClHand] {
            let c = crate::compile(id, &p, &CompileOptions::gpu()).unwrap();
            let (size, encoded) = (
                entry_size(&c),
                crate::diskfmt::encode_artifact(&c).len() as u64,
            );
            assert!(
                size * 4 > encoded * 3 && size * 4 < encoded * 5,
                "{id:?}: {size} units for {encoded} encoded bytes"
            );
        }
        let empty = ProgramBuilder::new("empty").finish(Vec::new());
        let c = crate::compile(CompilerId::Caps, &empty, &CompileOptions::gpu()).unwrap();
        assert!(entry_size(&c) > 0);
    }

    #[test]
    fn byte_cap_evicts_least_recently_used_first() {
        let cache = ArtifactCache::new();
        let opts = CompileOptions::gpu();
        let a = saxpy("a");
        let b = saxpy("b");
        cache.compile(CompilerId::Caps, &a, &opts).unwrap();
        let per_entry = cache.total_bytes();
        assert!(per_entry > 0, "entries are sized");
        cache.compile(CompilerId::Caps, &b, &opts).unwrap();
        // Touch `a` so `b` is the LRU entry, then cap to one entry.
        cache.compile(CompilerId::Caps, &a, &opts).unwrap();
        cache.set_byte_cap(Some(per_entry + per_entry / 2));
        assert_eq!(cache.len(), 1);
        assert!(cache.total_bytes() <= per_entry + per_entry / 2);
        assert_eq!(cache.lru_evictions(), 1);
        // `a` survived: compiling it again is a hit, `b` a miss.
        let hits = cache.hits();
        cache.compile(CompilerId::Caps, &a, &opts).unwrap();
        assert_eq!(cache.hits(), hits + 1, "the recently used entry survived");
        let misses = cache.misses();
        let b1 = cache.compile(CompilerId::Caps, &b, &opts).unwrap();
        assert_eq!(cache.misses(), misses + 1, "the LRU entry was evicted");
        // Evict→recompile round-trips bitwise.
        cache.set_byte_cap(None);
        let b2 = crate::compile(CompilerId::Caps, &b, &opts).unwrap();
        assert_eq!(*b1, b2);
    }

    #[test]
    fn an_entry_larger_than_the_cap_is_not_retained() {
        let cache = ArtifactCache::new();
        cache.set_byte_cap(Some(1));
        let p = saxpy("saxpy");
        let opts = CompileOptions::gpu();
        // Still served to the caller…
        cache.compile(CompilerId::Caps, &p, &opts).unwrap();
        // …but not kept resident: the invariant holds even then.
        assert_eq!(cache.total_bytes(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn tenant_quota_isolates_tenants() {
        let cache = ArtifactCache::new();
        let opts = CompileOptions::gpu();
        let probe = {
            let c = ArtifactCache::new();
            c.compile(CompilerId::Caps, &saxpy("a"), &opts).unwrap();
            c.total_bytes()
        };
        // Quota admits one entry per tenant but not two.
        cache.set_tenant_quota(Some(probe + probe / 2));
        {
            let _t = tenant_scope(Some("alice".into()));
            cache.compile(CompilerId::Caps, &saxpy("a"), &opts).unwrap();
            cache.compile(CompilerId::Caps, &saxpy("b"), &opts).unwrap();
        }
        {
            let _t = tenant_scope(Some("bob".into()));
            cache.compile(CompilerId::Caps, &saxpy("c"), &opts).unwrap();
        }
        assert!(cache.tenant_bytes("alice") <= probe + probe / 2);
        assert_eq!(
            cache.tenant_bytes("bob"),
            probe,
            "bob is untouched by alice's overflow"
        );
        assert_eq!(cache.lru_evictions(), 1);
        // Anonymous inserts are quota-exempt.
        cache.compile(CompilerId::Caps, &saxpy("d"), &opts).unwrap();
        cache.compile(CompilerId::Caps, &saxpy("e"), &opts).unwrap();
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn tenant_scope_nests_and_restores() {
        assert_eq!(current_tenant(), None);
        {
            let _a = tenant_scope(Some("outer".into()));
            assert_eq!(current_tenant().as_deref(), Some("outer"));
            {
                let _b = tenant_scope(Some("inner".into()));
                assert_eq!(current_tenant().as_deref(), Some("inner"));
            }
            assert_eq!(current_tenant().as_deref(), Some("outer"));
        }
        assert_eq!(current_tenant(), None);
    }

    #[test]
    fn concurrent_same_key_is_singleflight() {
        let cache = Arc::new(ArtifactCache::new());
        let p = Arc::new(saxpy("saxpy"));
        let opts = CompileOptions::gpu();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let p = Arc::clone(&p);
                let opts = opts.clone();
                s.spawn(move || {
                    cache.compile(CompilerId::Caps, &p, &opts).unwrap();
                });
            }
        });
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
    }
}
