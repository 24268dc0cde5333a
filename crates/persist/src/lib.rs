//! # paccport-persist — crash-consistent durable state
//!
//! The paper's full campaign is exactly the kind of long run
//! supercomputer users lose to node failures, and the in-process
//! resilience of `paccport-faults` + the engine's retry loop does not
//! survive the process itself dying: before this crate, one crash
//! discarded every compiled artifact and every finished cell. This
//! crate is the durability layer underneath the experiment engine:
//!
//! * [`wire`] — a tiny token codec (exact `f64` bit patterns, escaped
//!   strings) that every persisted payload is written in. No external
//!   serialization framework exists in this offline workspace, so the
//!   format is hand-rolled and deliberately boring: whitespace-
//!   separated tokens, one record per line.
//! * [`Journal`] — an append-only run journal with a per-record
//!   checksum. Appends are flushed before they are acknowledged, and
//!   [`Journal::open`] detects a torn tail (a record cut short or
//!   garbled by a crash mid-write) and truncates back to the last
//!   durable record — recovery always yields the pre-write or the
//!   post-write state, never a third.
//! * [`BlobStore`] — a content-keyed file store for compiled
//!   artifacts using the classic write-temp → checksum → atomic-rename
//!   protocol. Reads verify the payload checksum recorded in the file
//!   header; torn or corrupted entries read as absent and are evicted,
//!   letting the in-memory cache recompile through its existing
//!   generation machinery.
//! * [`fsck`] — offline verification of a whole state directory
//!   (journal + store), evicting unrecoverable entries and reporting
//!   what it repaired.
//!
//! Two deterministic fault kinds from `paccport-faults` have their
//! sites here: `crash` aborts the process right after a journal record
//! becomes durable (rolled against the record's step number), and
//! `torn-write` truncates/garbles the tail of an in-flight journal or
//! store write before aborting — the chaos the recovery paths above
//! are proven against.
//!
//! Metrics (`journal_appends_total`, `disk_cache_{hit,miss,evict}_total`,
//! `fsck_repairs_total`) flow through the `paccport-trace` registry.

pub mod blob;
pub mod journal;
pub mod wire;

pub use blob::{BlobFsck, BlobStore};
pub use journal::{Journal, JournalOpen};

use std::path::Path;

/// What [`fsck`] found and fixed in one state directory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FsckReport {
    /// Intact journal records.
    pub journal_records: usize,
    /// Bytes of torn journal tail truncated away.
    pub journal_truncated_bytes: u64,
    /// Intact artifact entries in the store.
    pub cache_entries: usize,
    /// Corrupt artifact entries evicted (file names).
    pub cache_evicted: Vec<String>,
    /// Leftover temp files from interrupted writes, removed.
    pub temp_files_removed: usize,
}

impl FsckReport {
    /// Number of distinct repairs performed (0 on a clean directory).
    pub fn repairs(&self) -> usize {
        usize::from(self.journal_truncated_bytes > 0)
            + self.cache_evicted.len()
            + self.temp_files_removed
    }

    pub fn is_clean(&self) -> bool {
        self.repairs() == 0
    }
}

/// The journal file name inside a state directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// The artifact-store subdirectory inside a state directory.
pub const CACHE_DIR: &str = "cache";

/// Verify (and repair) a state directory: truncate any torn journal
/// tail, evict artifact-store entries whose checksum does not verify,
/// and remove leftover temp files. Never touches intact state, so a
/// clean directory reports zero repairs. Errors only on I/O failures
/// that prevent inspection (a missing directory is such an error; a
/// missing journal or store inside an existing one is simply empty).
pub fn fsck(state_dir: &Path) -> Result<FsckReport, String> {
    if !state_dir.is_dir() {
        return Err(format!("{}: not a directory", state_dir.display()));
    }
    let mut report = FsckReport::default();

    let journal_path = state_dir.join(JOURNAL_FILE);
    if journal_path.exists() {
        let open =
            Journal::open(&journal_path).map_err(|e| format!("{}: {e}", journal_path.display()))?;
        report.journal_records = open.records.len();
        report.journal_truncated_bytes = open.truncated_bytes;
    }

    let cache_dir = state_dir.join(CACHE_DIR);
    if cache_dir.is_dir() {
        let store =
            BlobStore::open(&cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
        let bf = store
            .fsck()
            .map_err(|e| format!("{}: {e}", cache_dir.display()))?;
        report.cache_entries = bf.entries;
        report.cache_evicted = bf.evicted;
        report.temp_files_removed = bf.temp_files_removed;
    }

    let repairs = report.repairs();
    if repairs > 0 {
        paccport_trace::metrics::counter_add("fsck_repairs_total", &[], repairs as u64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("paccport-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fsck_is_quiet_on_a_clean_directory() {
        let d = tmp("clean");
        // Populate a journal and a store entry, both intact.
        let j = Journal::create(&d.join(JOURNAL_FILE)).unwrap();
        j.append("cell a 1").unwrap();
        j.append("cell b 2").unwrap();
        let s = BlobStore::open(&d.join(CACHE_DIR)).unwrap();
        s.put("entry-1", "payload").unwrap();
        let r = fsck(&d).unwrap();
        assert!(r.is_clean(), "{r:?}");
        assert_eq!(r.journal_records, 2);
        assert_eq!(r.cache_entries, 1);
        // Idempotent: a second pass still finds nothing.
        assert!(fsck(&d).unwrap().is_clean());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fsck_repairs_torn_journal_and_corrupt_store() {
        let d = tmp("repair");
        let path = d.join(JOURNAL_FILE);
        let j = Journal::create(&path).unwrap();
        j.append("cell a 1").unwrap();
        j.append("cell b 2").unwrap();
        drop(j);
        // Tear the tail mid-record.
        let text = std::fs::read(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 5]).unwrap();
        // Corrupt a store entry in place.
        let s = BlobStore::open(&d.join(CACHE_DIR)).unwrap();
        s.put("entry-1", "payload").unwrap();
        let f = d.join(CACHE_DIR).join("entry-1");
        let mut bytes = std::fs::read(&f).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&f, bytes).unwrap();

        let r = fsck(&d).unwrap();
        assert_eq!(r.journal_records, 1, "{r:?}");
        assert!(r.journal_truncated_bytes > 0);
        assert_eq!(r.cache_evicted, vec!["entry-1".to_string()]);
        assert_eq!(r.repairs(), 2);
        // And after repair the directory is clean again.
        assert!(fsck(&d).unwrap().is_clean());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fsck_rejects_a_missing_directory() {
        assert!(fsck(Path::new("/nonexistent/paccport-state")).is_err());
    }
}
