//! Resumable runs: the cell journal and the disk-backed artifact
//! store.
//!
//! A `--state-dir` run keeps two durable structures (both from
//! `paccport-persist`):
//!
//! * **The run journal** — one record per *completed* experiment cell
//!   (success or quarantine), plus one record per injected fault
//!   event. A resumed run replays journaled cells instead of
//!   recomputing them and restores the fault ledger, so its output is
//!   byte-identical to an uninterrupted run no matter where the
//!   previous life died.
//! * **The artifact store** — compiled artifacts in
//!   [`paccport_compilers::diskfmt`] records, so even *unjournaled*
//!   work (figure generators outside the cell matrices) skips its
//!   compiles after a restart.
//!
//! ## Journal record grammar
//!
//! Each journal payload is one `wire` token record:
//!
//! ```text
//! meta <version>
//! cell <key> <fingerprint:032x> ok <result tokens…>
//! cell <key> <fingerprint:032x> err <reason> <attempts> <injected>
//! event <fault-kind-tag> <site-key> <attempt>
//! ```
//!
//! Cell keys are positional (`m<matrix>/c<index>`: the engine numbers
//! its matrices in submission order, see
//! [`crate::engine::Engine::run_matrix`]) and the fingerprint is a
//! content hash of the full cell, so a journal from a *different*
//! configuration (changed scale, changed variant set) never replays
//! into the wrong cell — the fingerprint mismatch falls back to
//! recomputation.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use paccport_compilers::ArtifactStore;
use paccport_persist::wire::{Reader, Writer};
use paccport_persist::{BlobStore, Journal, CACHE_DIR, JOURNAL_FILE};
use paccport_ptx::{CategoryCounts, CATEGORIES};

use crate::profile::CellProfile;
use crate::soundness::{CellCheck, SoundnessRow};
use crate::study::Measured;

/// Journal payload-format version; bump on any grammar change. A
/// version mismatch on resume is an error (the state dir belongs to a
/// different build), not silent recomputation.
pub const JOURNAL_VERSION: u64 = 1;

/// A value that can be journaled as a cell result.
pub trait DurableResult: Sized {
    fn encode(&self, w: &mut Writer);
    fn decode(r: &mut Reader) -> Result<Self, String>;
}

fn enc_counts(w: &mut Writer, c: &CategoryCounts) {
    for (_, v) in c.iter() {
        w.u64(v);
    }
}

fn dec_counts(r: &mut Reader) -> Result<CategoryCounts, String> {
    let mut c = CategoryCounts::default();
    for cat in CATEGORIES {
        c.set(cat, r.u64()?);
    }
    Ok(c)
}

impl DurableResult for Measured {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.series);
        w.str(&self.variant);
        w.f64(self.seconds);
        w.f64(self.kernel_seconds);
        w.f64(self.transfer_seconds);
        w.str(&self.config);
        enc_counts(w, &self.counts);
        w.u64(self.h2d);
        w.u64(self.d2h);
        w.u64(self.launches);
        w.bool(self.on_device);
        w.u64(self.while_iterations);
        w.f64(self.transfers_per_while_iter);
        w.u64(self.transfers_outside_while);
    }

    fn decode(r: &mut Reader) -> Result<Self, String> {
        Ok(Measured {
            series: r.str()?,
            variant: r.str()?,
            seconds: r.f64()?,
            kernel_seconds: r.f64()?,
            transfer_seconds: r.f64()?,
            config: r.str()?,
            counts: dec_counts(r)?,
            h2d: r.u64()?,
            d2h: r.u64()?,
            launches: r.u64()?,
            on_device: r.bool()?,
            while_iterations: r.u64()?,
            transfers_per_while_iter: r.f64()?,
            transfers_outside_while: r.u64()?,
        })
    }
}

impl DurableResult for CellCheck {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.rows.len() as u64);
        for row in &self.rows {
            w.str(&row.benchmark);
            w.str(&row.series);
            w.str(&row.variant);
            w.str(&row.kernel);
            w.u64(row.level as u64);
            w.bool(row.proven_independent);
            w.str(&row.verdict);
            w.u64(row.races as u64);
            w.str(&row.race_note);
            w.bool(row.miscompiled);
            w.bool(row.lost_update_demo);
            w.bool(row.consistent);
        }
        w.u64(self.accesses);
    }

    fn decode(r: &mut Reader) -> Result<Self, String> {
        let n = r.usize()?;
        if n > 100_000 {
            return Err(format!("implausible row count {n}"));
        }
        let mut rows = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            rows.push(SoundnessRow {
                benchmark: r.str()?,
                series: r.str()?,
                variant: r.str()?,
                kernel: r.str()?,
                level: r.usize()?,
                proven_independent: r.bool()?,
                verdict: r.str()?,
                races: r.usize()?,
                race_note: r.str()?,
                miscompiled: r.bool()?,
                lost_update_demo: r.bool()?,
                consistent: r.bool()?,
            });
        }
        Ok(CellCheck {
            rows,
            accesses: r.u64()?,
        })
    }
}

impl DurableResult for CellProfile {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.label);
        w.str(&self.profile);
    }

    fn decode(r: &mut Reader) -> Result<Self, String> {
        Ok(CellProfile {
            label: r.str()?,
            profile: r.str()?,
        })
    }
}

/// A journaled failure, replayed into the engine's quarantine on
/// resume so the resumed run reports the identical failure set.
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledFailure {
    pub reason: String,
    pub attempts: u32,
    pub injected: bool,
}

/// One replayed cell outcome: the encoded success tokens, or the
/// failure that quarantined it.
pub type ReplayedOutcome = Result<String, JournaledFailure>;

/// The run journal plus the replay index built from a resumed file.
/// Shared across engine workers behind an `Arc`.
pub struct CellJournal {
    journal: Journal,
    /// Completed cells from the previous life: key → (fingerprint,
    /// outcome). Consulted (not mutated) during replay.
    completed: HashMap<String, (u128, ReplayedOutcome)>,
    /// Fault events from the previous life, in append order.
    events: Vec<(String, String, u32)>,
    /// Serializes append ordering decisions (key uniqueness is by
    /// construction; this only guards double-journaling in tests).
    recorded: Mutex<std::collections::HashSet<String>>,
}

impl CellJournal {
    /// Open the journal inside `state_dir`. `resume = false` starts a
    /// fresh journal (truncating any previous one); `resume = true`
    /// verifies + indexes the existing records (repairing a torn tail
    /// in place) so completed cells replay.
    pub fn open(state_dir: &Path, resume: bool) -> io::Result<CellJournal> {
        std::fs::create_dir_all(state_dir)?;
        let path = state_dir.join(JOURNAL_FILE);
        if !resume {
            let journal = Journal::create(&path)?;
            journal.append_unrolled(&{
                let mut w = Writer::new();
                w.word("meta").u64(JOURNAL_VERSION);
                w.finish()
            })?;
            return Ok(CellJournal {
                journal,
                completed: HashMap::new(),
                events: Vec::new(),
                recorded: Mutex::new(std::collections::HashSet::new()),
            });
        }

        let open = Journal::open(&path)?;
        let mut completed = HashMap::new();
        let mut events = Vec::new();
        for payload in &open.records {
            let mut r = Reader::new(payload);
            match r.word().map_err(io_err)? {
                "meta" => {
                    let v = r.u64().map_err(io_err)?;
                    if v != JOURNAL_VERSION {
                        return Err(io_err(format!(
                            "journal version {v}, this build writes {JOURNAL_VERSION} — \
                             start a fresh --state-dir"
                        )));
                    }
                }
                "cell" => {
                    let key = r.str().map_err(io_err)?;
                    let fp = r.u128_hex().map_err(io_err)?;
                    let outcome = match r.word().map_err(io_err)? {
                        "ok" => Ok(r.rest()),
                        "err" => Err(JournaledFailure {
                            reason: r.str().map_err(io_err)?,
                            attempts: r.u32().map_err(io_err)?,
                            injected: r.bool().map_err(io_err)?,
                        }),
                        other => return Err(io_err(format!("bad cell outcome tag `{other}`"))),
                    };
                    completed.insert(key, (fp, outcome));
                }
                "event" => {
                    let tag = r.str().map_err(io_err)?;
                    let key = r.str().map_err(io_err)?;
                    let attempt = r.u32().map_err(io_err)?;
                    events.push((tag, key, attempt));
                }
                other => return Err(io_err(format!("bad journal record tag `{other}`"))),
            }
        }
        Ok(CellJournal {
            journal: open.journal,
            completed,
            events,
            recorded: Mutex::new(std::collections::HashSet::new()),
        })
    }

    /// Number of completed cells available for replay.
    pub fn replayable(&self) -> usize {
        self.completed.len()
    }

    /// The journaled outcome for `key`, if the fingerprint matches the
    /// cell the caller is about to run. A mismatch (same position,
    /// different content — the configuration changed between lives)
    /// reads as absent and the cell recomputes.
    pub fn replay(&self, key: &str, fp: u128) -> Option<&ReplayedOutcome> {
        match self.completed.get(key) {
            Some((stored_fp, outcome)) if *stored_fp == fp => Some(outcome),
            _ => None,
        }
    }

    /// Journal a successful cell. `ok_tokens` is the result's
    /// [`DurableResult::encode`] token string.
    pub fn record_ok(&self, key: &str, fp: u128, ok_tokens: &str) {
        if !self.recorded.lock().unwrap().insert(key.to_string()) {
            return;
        }
        let mut w = Writer::new();
        w.word("cell").str(key).u128_hex(fp).word("ok");
        let payload = if ok_tokens.is_empty() {
            w.finish()
        } else {
            format!("{} {ok_tokens}", w.finish())
        };
        let _ = self.journal.append(&payload);
    }

    /// Journal a quarantined cell.
    pub fn record_err(&self, key: &str, fp: u128, reason: &str, attempts: u32, injected: bool) {
        if !self.recorded.lock().unwrap().insert(key.to_string()) {
            return;
        }
        let mut w = Writer::new();
        w.word("cell").str(key).u128_hex(fp).word("err");
        w.str(reason).u64(attempts as u64).bool(injected);
        let _ = self.journal.append(&w.finish());
    }

    /// Journal an injected fault event (called from the faults event
    /// sink). Uses the unrolled append: an event record must never
    /// host the fault it is recording.
    pub fn record_event(&self, tag: &str, site: &str, attempt: u32) {
        let mut w = Writer::new();
        w.word("event").str(tag).str(site).u64(attempt as u64);
        let _ = self.journal.append_unrolled(&w.finish());
    }

    /// Re-inject the previous life's fault events into the current
    /// ledger, *filtered to fault kinds active in the current config*:
    /// a resume without `--inject` reports no faults (parity with a
    /// clean run), a resume with the same spec reports the union of
    /// restored and new events (parity with an uninterrupted chaos
    /// run). Call after `paccport_faults::configure`.
    pub fn restore_fault_events(&self) -> usize {
        let mut restored = 0;
        for (tag, site, attempt) in &self.events {
            let Some(kind) = paccport_faults::FaultKind::from_tag(tag) else {
                continue;
            };
            if paccport_faults::kind_active(kind) {
                paccport_faults::restore_event(kind, site, *attempt);
                restored += 1;
            }
        }
        restored
    }
}

fn io_err(msg: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The durable artifact tier: `paccport-persist`'s checksummed file
/// store speaking the compilers crate's [`ArtifactStore`] contract.
/// Hit/miss/evict accounting lives in the cache (`disk_cache_*_total`
/// metrics); this adapter only moves verified bytes.
pub struct DiskArtifactStore {
    store: BlobStore,
}

impl DiskArtifactStore {
    /// Open (creating if needed) the store under `state_dir`.
    pub fn open(state_dir: &Path) -> io::Result<DiskArtifactStore> {
        Ok(DiskArtifactStore {
            store: BlobStore::open(&state_dir.join(CACHE_DIR))?,
        })
    }
}

impl ArtifactStore for DiskArtifactStore {
    fn load(&self, name: &str) -> Option<String> {
        self.store.get(name)
    }

    fn store(&self, name: &str, payload: &str) {
        // Best-effort: a full disk must not kill the run — the next
        // life recompiles instead of resuming warm.
        let _ = self.store.put(name, payload);
    }

    fn evict(&self, name: &str) {
        self.store.evict(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("paccport-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_measured() -> Measured {
        let mut counts = CategoryCounts::default();
        counts.set(paccport_ptx::Category::Arithmetic, 12);
        counts.set(paccport_ptx::Category::GlobalMemory, 7);
        Measured {
            series: "CAPS-CUDA-K40 / Base".into(),
            variant: "Dist(256,16)".into(),
            seconds: 1.25,
            kernel_seconds: 0.75,
            transfer_seconds: 0.5,
            config: "256x16".into(),
            counts,
            h2d: 3,
            d2h: 2,
            launches: 9,
            on_device: true,
            while_iterations: 4,
            transfers_per_while_iter: 2.5,
            transfers_outside_while: 1,
        }
    }

    fn round_trip<T: DurableResult + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let rec = w.finish();
        let mut r = Reader::new(&rec);
        let back = T::decode(&mut r).unwrap();
        r.end().unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn measured_round_trips_bit_exactly() {
        round_trip(&sample_measured());
        // NaN-free but denormal/exotic values still bit-exact.
        let mut m = sample_measured();
        m.seconds = f64::from_bits(0x0000_0000_0000_0001);
        m.transfers_per_while_iter = f64::INFINITY;
        round_trip(&m);
    }

    #[test]
    fn cell_check_round_trips() {
        let check = CellCheck {
            rows: vec![SoundnessRow {
                benchmark: "lud".into(),
                series: "CAPS-CUDA-K40".into(),
                variant: "Base".into(),
                kernel: "fan1".into(),
                level: 1,
                proven_independent: true,
                verdict: "independent".into(),
                races: 0,
                race_note: String::new(),
                miscompiled: false,
                lost_update_demo: false,
                consistent: true,
            }],
            accesses: 12345,
        };
        round_trip(&check);
    }

    #[test]
    fn cell_profile_round_trips() {
        round_trip(&CellProfile {
            label: "BFS Base / PGI-K40".into(),
            profile: "kernel  launches\nbfs_1   HOST (never launched)\n".into(),
        });
    }

    #[test]
    fn cells_replay_across_lives_and_fingerprints_gate_replay() {
        let d = tmp("replay");
        let j = CellJournal::open(&d, false).unwrap();
        let m = sample_measured();
        let mut w = Writer::new();
        m.encode(&mut w);
        j.record_ok("m0/c0", 0xabc, &w.finish());
        j.record_err("m0/c1", 0xdef, "[injected] device fault", 3, true);
        drop(j);

        let j2 = CellJournal::open(&d, true).unwrap();
        assert_eq!(j2.replayable(), 2);
        // Success replays and decodes to the original value.
        let ok = j2
            .replay("m0/c0", 0xabc)
            .expect("hit")
            .as_ref()
            .unwrap()
            .clone();
        let mut r = Reader::new(&ok);
        assert_eq!(Measured::decode(&mut r).unwrap(), m);
        // Failure replays with its metadata.
        let err = j2
            .replay("m0/c1", 0xdef)
            .expect("hit")
            .as_ref()
            .unwrap_err()
            .clone();
        assert_eq!(err.attempts, 3);
        assert!(err.injected);
        // Fingerprint mismatch and unknown keys read as absent.
        assert!(j2.replay("m0/c0", 0xabd).is_none());
        assert!(j2.replay("m9/c9", 0xabc).is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fresh_open_discards_previous_records() {
        let d = tmp("fresh");
        let j = CellJournal::open(&d, false).unwrap();
        j.record_ok("m0/c0", 1, "");
        drop(j);
        let j2 = CellJournal::open(&d, false).unwrap();
        assert_eq!(j2.replayable(), 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn duplicate_cell_keys_journal_once() {
        let d = tmp("dupe");
        let j = CellJournal::open(&d, false).unwrap();
        j.record_ok("m0/c0", 1, "");
        j.record_ok("m0/c0", 1, "");
        drop(j);
        assert_eq!(CellJournal::open(&d, true).unwrap().replayable(), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn version_skew_is_an_error_on_resume() {
        let d = tmp("skew");
        std::fs::create_dir_all(&d).unwrap();
        let jr = Journal::create(&d.join(JOURNAL_FILE)).unwrap();
        jr.append_unrolled("meta 999").unwrap();
        drop(jr);
        assert!(CellJournal::open(&d, true).is_err());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fault_events_restore_filtered_to_active_kinds() {
        let d = tmp("events");
        let j = CellJournal::open(&d, false).unwrap();
        j.record_event("crash", "journal:step-000004", 0);
        j.record_event("compile-fail", "CAPS 3.4.1:lud", 1);
        drop(j);

        let j2 = CellJournal::open(&d, true).unwrap();
        // No fault config: nothing is active, nothing restores.
        paccport_faults::deconfigure();
        assert_eq!(j2.restore_fault_events(), 0);
        assert!(paccport_faults::ledger().is_empty());
        // Crash active: only the crash event restores.
        let spec = paccport_faults::FaultSpec::parse("crash:step").unwrap();
        paccport_faults::configure(spec, 7);
        assert_eq!(j2.restore_fault_events(), 1);
        let ledger = paccport_faults::ledger();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].key, "journal:step-000004");
        paccport_faults::deconfigure();
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn disk_store_round_trips_through_the_blob_tier() {
        let d = tmp("store");
        std::fs::create_dir_all(&d).unwrap();
        let s = DiskArtifactStore::open(&d).unwrap();
        assert_eq!(s.load("k"), None);
        s.store("k", "payload tokens");
        assert_eq!(s.load("k").as_deref(), Some("payload tokens"));
        s.evict("k");
        assert_eq!(s.load("k"), None);
        let _ = std::fs::remove_dir_all(&d);
    }
}
